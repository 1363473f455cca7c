"""The level-restricted multiplicity three ways.

With the root weighting supported on the type A roots, the alternating sum
factors through twisted branching coefficients against Kostka-Foulkes
polynomials, and equals a filtered energy sum over row-crystal highest
weight elements; the filter is just a cap on the affine statistic.
"""

from fractions import Fraction

from krlab.identities import DIAMOND, OSC_KIND, ZETA, level_formula
from krlab.kr_row import energy_row
from krlab.oscillating import hw_row_elements
from krlab.partitions import norm, oc
from krlab.polynomials import poly_str

for lie_type, n, lam_d, mu_d, two_g in (
    ("C", 2, (4, 0), (0, 0), 4),
    ("B", 2, (4, 2), (2, 0), 4),
    ("D", 2, (4, -2), (2, 0), 4),
    ("B", 2, (3, 1), (1, 1), 3),
):
    g = Fraction(two_g, 2)
    lhs, mid, rhs = level_formula(lie_type, n, lam_d, mu_d, two_g)
    show = lambda w: "(" + ",".join(str(Fraction(x, 2)) for x in w) + ")"
    print(
        "type %s, lambda = %s, mu = %s, g = %s"
        % (lie_type, show(lam_d), show(mu_d), g)
    )
    print("  restricted alternating sum:", poly_str(lhs, ("q",)))
    print("  branching expansion:       ", poly_str(mid, ("q",)))
    print("  filtered energy sum:       ", poly_str(rhs, ("q",)))
    assert lhs == mid == rhs

    kind = DIAMOND[lie_type]
    lam_hat = norm(tuple((two_g - lam_d[n - 1 - i]) // 2 for i in range(n)))
    mu_hat = tuple((two_g - mu_d[n - 1 - i]) // 2 for i in range(n))
    rows = hw_row_elements(kind, mu_hat, lam_hat)
    kept = sum(1 for _, _, e0 in rows if 2 * e0 <= ZETA[lie_type] * two_g)
    print(
        "  %d highest weight elements of B_%s, %d at level, kind %s"
        % (len(rows), mu_hat, kept, kind)
    )
    for chain, tensor, e0 in rows:
        mark = "kept" if 2 * e0 <= ZETA[lie_type] * two_g else "cut"
        print(
            "    %-28s eps0 = %d, energy = %d  [%s]"
            % (
                " (x) ".join(str(f.word) for f in tensor),
                e0,
                energy_row(tensor),
                mark,
            )
        )
    print()
