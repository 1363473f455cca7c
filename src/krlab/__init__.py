"""Exact computation of Lusztig q-weight multiplicities beyond type A,
their Kirillov-Reshetikhin crystal formulas, and the level-restricted
refinement, all over exact integer arithmetic.
"""

import sys

from .polynomials import Poly, WeightPoly, poly_str
from .qweight import (
    kl_level_restricted,
    kl_poly,
    kl_qt_B,
    q_kostant,
    stable_kl,
    weight_multiplicity,
)
from .charge import charge, kostka_foulkes
from .characters import character, e_poly, lr_coef, schur, twisted_branching_d
from .kr_column import (
    BOX,
    HDOM,
    VDOM,
    ColumnKR,
    energy_chain,
    energy_col,
    iota_col,
    local_H,
    r_matrix_col,
    split_col,
    split_image_hw,
    vac,
    vac_qt_energy,
)
from .kr_row import (
    RowKR,
    e0_row,
    energy_row,
    eps0,
    eps0_row,
    f0_row,
    hw_row_elements,
    phi0_row,
    r_matrix_row,
    split_row,
)
from .letters import EMPTY, is_admissible, red, unred
from .oscillating import (
    GSSOT,
    SSOT,
    SSROT,
    aug,
    cind,
    deaug_last_row,
    enumerate_chains,
    gamma,
    gamma_inv,
    phi_c,
    phi_r,
    reshape_aug,
    rind_ohs,
    rind_rohs,
    std,
)
from .identities import (
    IdentityReport,
    level_formula,
    morris_b_qt,
    morris_c,
    q1_count,
    thm_b_rhs,
    thm_c_rhs,
    xk_filter_table,
    xk_lhs,
    xk_rhs_unfiltered,
)
from .rsk import alpha, beta, burge, phi_bc, row_insert, theta_1n

from . import kr_row, oscillating, qweight

__version__ = "0.1.0"


def clear_caches():
    """Empty every memo table krlab keeps: each functools.lru_cache defined
    in its modules, the chain layer's strip cache with its shape table, the
    q-Kostant memo and the row R-matrix tables.  Later results are the same,
    only computed afresh."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith(__name__ + "."):
            continue
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) == name:
                fn.cache_clear()
    oscillating._shapes.clear()
    qweight._memo.clear()
    kr_row._tables.clear()
